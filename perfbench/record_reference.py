#!/usr/bin/env python3
"""Record the per-unit output digests every benchmark run checks against.

    python3 perfbench/record_reference.py

Runs every unit of each workload's universe once, asserts the workload's
output semantics on it, and for `necessity` asserts that the units fold into
exactly `necessity_experiment`'s aggregates over the whole universe.  Writes
`perfbench/reference.json`.  Re-record only when robosync's outputs change on
purpose; the digests are what catches an unintended change.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from robosync import experiments  # noqa: E402
from workloads import NO_SPAN, WORKLOADS, digest, fold_necessity  # noqa: E402


def record(name: str) -> dict:
    wl = WORKLOADS[name](0)
    digests = {}
    by_template: dict[str, list[dict]] = {}
    t0 = time.perf_counter()
    for key in wl.all_keys():
        result = wl.run(key, NO_SPAN)
        problems = wl.problems(key, result)
        if problems:
            raise SystemExit(f"{name} {wl.ref_key(key)}: {problems}")
        digests[wl.ref_key(key)] = digest(wl.result_json(result))
        if name == "necessity":
            by_template.setdefault(key[0], []).append(result)
    for template, units in by_template.items():
        expected = experiments.necessity_experiment(template, len(units))
        if fold_necessity(template, units) != expected:
            raise SystemExit(f"necessity {template}: units do not fold into the aggregates")
    print(f"{name}: {len(digests)} units in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return digests


def main() -> int:
    reference = {name: record(name) for name in sorted(WORKLOADS)}
    (HERE / "reference.json").write_text(
        json.dumps(reference, sort_keys=True, indent=0, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
