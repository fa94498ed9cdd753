"""Byte-identity of the CLI: every command of `tests/golden.json` exits with
its recorded code and writes its recorded `--out` file, stdout and stderr.
`tests/record_golden.py` records the table and says when it may change."""
import json

from record_golden import GOLDEN, run_entry, write_inputs


def test_cli_outputs_match_the_golden_table(tmp_path):
    write_inputs(tmp_path)
    changed = []
    for entry in json.loads(GOLDEN.read_text()):
        got = run_entry(entry["name"], entry["argv"], tmp_path)
        changed += [f"{entry['name']}: {key}" for key in ("exit", "out", "stdout", "stderr")
                    if got[key] != entry[key]]
    assert not changed, changed
