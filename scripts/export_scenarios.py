#!/usr/bin/env python3
"""Export the built-in scenario bundles as JSON data files.

Usage: python3 scripts/export_scenarios.py [--dir scenarios]
"""
import argparse
import pathlib
import sys

from robosync.jsonio import dump
from robosync.scenarios import BUILTIN_BUNDLES, builtin_bundle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default="scenarios")
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(BUILTIN_BUNDLES):
        path = out_dir / f"{name}.json"
        dump(builtin_bundle(name), path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
