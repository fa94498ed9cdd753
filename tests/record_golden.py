#!/usr/bin/env python3
"""Record the golden CLI table that `tests/test_golden.py` checks.

    python3 tests/record_golden.py

Runs every command of `ENTRIES` in order, in-process through `cli.main`,
in one temporary directory, and writes `tests/golden.json`: for each entry
its command, its exit code and the sha256 of its `--out` file, its stdout
and its stderr.  A command writes `--out {tmp}/<name>.json` unless it names
its own `--out`; later commands read earlier outputs by that path.  `{tmp}`
stands for the directory, in the commands and in the recorded text.

Re-record only when an output changes on purpose, and name each changed
entry and its reason in CHANGES.md; no other edit to the table is allowed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(HERE.parent / "src"))

from robosync import cli  # noqa: E402
from robosync.scenarios import (  # noqa: E402
    NECESSITY_TEMPLATES,
    bundle_to_json,
    random_vicinity_scenario,
)

C7_SCENARIO = ["--scenario", "{tmp}/scn.json"]

# (name, command).  Criterion 7's ten commands are `trap-trace`, the `c7-*`
# entries, `repro-greedy-lemma`, `repro-colorbased-svp` and
# `necessity-pairwise-alignment`; `clean-trace` writes the trace they check
ENTRIES: list[tuple[str, list[str]]] = [
    ("trap-trace", ["simulate", "--scenario", "builtin:greedy-trap"]),
    ("clean-trace", ["simulate", *C7_SCENARIO, "--schedule", "async:30", "--machine", "none",
                     "--algo", "halt", "--seed", "3"]),
    ("c7-simulate-seed-1", ["simulate", *C7_SCENARIO, "--schedule", "async:40", "--seed", "1"]),
    ("c7-simulate-seed-2", ["simulate", *C7_SCENARIO, "--schedule", "async:40", "--seed", "2"]),
    ("c7-simulate-fsync", ["simulate", *C7_SCENARIO, "--schedule", "fsync:12",
                           "--machine", "greedy", "--seed", "7"]),
    ("c7-check-trap", ["check", "{tmp}/trap-trace.json"]),
    ("c7-check-clean", ["check", "{tmp}/clean-trace.json"]),
    ("c7-synthesize-clean", ["synthesize", "{tmp}/clean-trace.json"]),
    ("repro-greedy-lemma", ["repro", "greedy-lemma"]),
    ("repro-colorbased-svp", ["repro", "colorbased-theorem", "--machine", "svp"]),
    ("repro-colorbased-greedy", ["repro", "colorbased-theorem", "--machine", "greedy"]),
    *[(f"necessity-{t}", ["necessity", "--template", t, "--seeds", "40"]) for t in sorted(NECESSITY_TEMPLATES)],
    ("necessity-all", ["necessity", "--template", "all", "--seeds", "40"]),
    *[(f"sweep-{m}", ["sweep", "--seeds", "5", "--horizon", "60", "--machine", m])
      for m in ("svp", "greedy")],
    # the greedy core's natural search ends open-at-horizon at any budget up
    # to the default (10^6 nodes, about 12 s) with the same report, so its
    # entries stop at 2,000 nodes
    *[entry for m, budget in (("svp", []), ("greedy", ["--budget", "2000"])) for entry in [
        (f"luminous-{m}", ["simulate", "--scenario", "builtin:greedy-trap", "--machine", m,
                           "--schedule", "async:60", "--seed", "3"]),
        (f"check-luminous-{m}", ["check", f"{{tmp}}/luminous-{m}.json", *budget]),
        (f"synthesize-luminous-{m}", ["synthesize", f"{{tmp}}/luminous-{m}.json", *budget])]],
    ("trap-fsync-greedy", ["simulate", "--scenario", "builtin:greedy-trap",
                           "--machine", "greedy", "--schedule", "fsync:12"]),
    ("replayable", ["simulate", "--scenario", "builtin:necessity-pairwise-alignment",
                    "--seed", "1"]),
    ("check-replayable", ["check", "{tmp}/replayable.json"]),
    ("synthesize-replayable", ["synthesize", "{tmp}/replayable.json"]),
    ("check-replayable-budget-0", ["check", "{tmp}/replayable.json", "--budget", "0"]),
    ("lattice-trace", ["simulate", "--scenario", "{tmp}/lattice.json", "--algo", "halt",
                       "--schedule", "async:40", "--seed", "0"]),
    ("check-lattice", ["check", "{tmp}/lattice-trace.json"]),
    ("natural-search-trace", ["simulate", "--scenario", "builtin:necessity-serializability",
                              "--machine", "greedy", "--schedule", "async:60", "--seed", "3"]),
    ("check-natural-search", ["check", "{tmp}/natural-search-trace.json",
                              "--budget", "2000"]),
    ("synthesize-natural-search", ["synthesize", "{tmp}/natural-search-trace.json",
                                   "--budget", "2000"]),
    ("malformed-schedule", ["simulate", "--scenario", "builtin:necessity-control",
                            "--algo", "halt", "--schedule", "{tmp}/bad-schedule.json"]),
    ("unwritable-out", ["check", "{tmp}/clean-trace.json", "--out", "{tmp}"]),
    # every violating run stops inconclusive after its first candidate: exit 3
    ("necessity-order-budget-1", ["necessity", "--template", "stationarity", "--seeds", "40",
                                  "--order-budget", "1"]),
]


def write_inputs(tmp: Path) -> None:
    """The files the commands read besides earlier outputs: criterion 7's
    clique-cluster bundle, a 64-robot lattice of spacing 0.6 on 8 columns,
    and a schedule whose only cycle moves before its Look."""
    scenario, spec = random_vicinity_scenario(11)
    (tmp / "scn.json").write_text(json.dumps(bundle_to_json(
        scenario, algorithm=spec, machine="svp", adversary_mode="nonrigid")))
    n, cols = 64, 8
    (tmp / "lattice.json").write_text(json.dumps({
        "positions": [[0.6 * (k % cols), 0.6 * (k // cols)] for k in range(n)],
        "frames": [{"rotation": 0.0, "unit": 1.0}] * n, "delta": 0.25}))
    (tmp / "bad-schedule.json").write_text(json.dumps({
        "horizon": 4.0, "robots": [[{"j": 1, "o": 1.0, "s": 0.5, "f": 2.0}], []]}))


def _sha(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()


def run_entry(name: str, argv: list[str], tmp: Path) -> dict:
    """Run one command in `tmp`; its exit code and digests."""
    args = [a.replace("{tmp}", str(tmp)) for a in argv]
    out = tmp / f"{name}.json"
    if "--out" not in args:
        args += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    return {
        "name": name,
        "argv": argv,
        "exit": code,
        "out": _sha(out.read_bytes()) if out.is_file() else None,
        "stdout": _sha(stdout.getvalue().replace(str(tmp), "{tmp}").encode()),
        "stderr": _sha(stderr.getvalue().replace(str(tmp), "{tmp}").encode()),
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        table = [run_entry(name, argv, Path(tmp)) for name, argv in ENTRIES]
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(table)} entries written to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
