"""The JSON boundary: every check, read and write of outside JSON.

Each type's `from_json` reads itself with the `json_*` checks, which say
what a JSON integer, number, point or choice is.  `load` turns every way a
file can be malformed into an InputError.  `dump` writes sorted keys, indent
1 and a trailing newline, so identical data gives identical bytes; an output
file it cannot write is an InputError, which `check_writable` raises early.
"""
from __future__ import annotations

import json
import math
import os
import sys

from .errors import InputError
from .geometry import Point


def json_index(value: object, what: str) -> int:
    """An index read from JSON: only a JSON integer is one, so a float, a
    boolean or a string is refused rather than truncated or coerced."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


_NUMBER = (float, int)  # the types json.load gives a JSON number; bool is not one


def json_number(value: object, what: str) -> float:
    """A real read from JSON: only a finite JSON number is one, so a string,
    a boolean, NaN or an infinity is refused rather than coerced."""
    if type(value) not in _NUMBER or not math.isfinite(value):
        raise InputError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def json_point(value: object, what: str) -> Point:
    """A point read from JSON: a list of exactly two numbers, finite as
    `Point` requires."""
    if (type(value) is not list or len(value) != 2
            or type(value[0]) not in _NUMBER or type(value[1]) not in _NUMBER):
        raise InputError(f"{what} must be a list of two numbers, got {value!r}")
    return Point(float(value[0]), float(value[1]))


def json_point_rows(rows, what: str):
    """`rows`, each refused as `json_point` refuses it, but no point built:
    each must be a list of two finite numbers."""
    for p in rows:
        if not (type(p) is list and len(p) == 2 and type(p[0]) in _NUMBER
                and type(p[1]) in _NUMBER and math.isfinite(p[0]) and math.isfinite(p[1])):
            json_point(p, what)  # raises its error, or `Point`'s for a non-finite one
    return rows


def json_choice(value, what: str, choices: tuple):
    """`value`, refused unless it is one of `choices` (any JSON value may come in)."""
    if value not in choices:
        raise InputError(f"{what} must be one of {', '.join(map(str, choices))}, "
                         f"got {value!r}")
    return value


def load(path: str, parse):
    """Read a JSON file and build an object from it with `parse`.  Outside
    files are read only here, so every way the data can be malformed
    surfaces here and becomes an InputError."""
    try:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError as exc:
                raise InputError(f"cannot read {path}: JSON nested too deeply") from exc
        return parse(data)
    except InputError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise InputError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc


def _write(out: str, text: str, mode: str = "w") -> None:
    try:
        with open(out, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def check_writable(out: str | None) -> None:
    """Raise the InputError that `dump` would raise on opening the file
    `out`, without writing to it; a file this creates is removed again."""
    if out:
        existed = os.path.lexists(out)
        _write(out, "", "a")
        if not existed:
            os.remove(out)


def dump(data: dict, out: str | None) -> None:
    """Write `data` to the file `out`, or to stdout when `out` is empty.  A
    file that cannot be opened or written is an InputError."""
    text = json.dumps(data, sort_keys=True, indent=1) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)
