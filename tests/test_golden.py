"""Byte-identity of the CLI: every command of `tests/golden.json` exits with
its recorded code and writes its recorded `--out` file, stdout and stderr.
`tests/record_golden.py` records the table and says when it may change."""
import json
import os
import subprocess
import sys

from record_golden import GOLDEN, _sha, run_entry, write_inputs


def test_cli_outputs_match_the_golden_table(tmp_path):
    write_inputs(tmp_path)
    changed = []
    for entry in json.loads(GOLDEN.read_text()):
        got = run_entry(entry["name"], entry["argv"], tmp_path)
        changed += [f"{entry['name']}: {key}" for key in ("exit", "out", "stdout", "stderr")
                    if got[key] != entry[key]]
    assert not changed, changed


def test_the_module_entry_point_gives_the_golden_output(tmp_path):
    # `python -m robosync` in a fresh interpreter: `__main__` runs, and the
    # template is built cold, not taken from this process's shared runs
    entry = next(e for e in json.loads(GOLDEN.read_text())
                 if e["name"] == "necessity-stationarity")
    out = tmp_path / "out.json"
    src = str(GOLDEN.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "robosync", *entry["argv"], "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert done.returncode == entry["exit"], done.stderr
    assert _sha(out.read_bytes()) == entry["out"]
    assert (_sha(done.stdout), _sha(done.stderr)) == (entry["stdout"], entry["stderr"])
