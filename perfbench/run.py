#!/usr/bin/env python3
"""robosync benchmark: one closed-loop process, one unit at a time.

    python3 perfbench/run.py --workload {sweep,grid,necessity} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; robosync is imported from its
`src/`.  With `--trace 0` the run measures end-to-end metrics with tracing
off for S seconds.  With `--trace 1` it runs a fixed list of units twice,
untraced then traced, and reports per-layer spans, counters and the tracing
overhead.  Every unit's output is checked against `reference.json`.  The
last line of standard output is the JSON result; the line before it holds
the details (environment, strata, sample counts, growth exponents).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9  # fresh processes timed for setup_s, spread over the run; the median is reported


def _locate_source() -> None:
    if not (SRC / "robosync" / "__init__.py").is_file():
        sys.exit(f"benchmark: no robosync source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


_locate_source()

import robosync  # noqa: E402
from workloads import NO_SPAN, WORKLOADS, digest  # noqa: E402
from tracer import COUNTERS, SPAN_NAMES, Tracer  # noqa: E402

if Path(robosync.__file__).resolve().parent != SRC / "robosync":
    sys.exit(f"benchmark: imported robosync from {robosync.__file__}, not {SRC}")


@dataclass(slots=True)
class Outcome:
    key: str
    stratum: str = ""
    cycles: int = 0
    seconds: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    factor: float = 1.0  # host-speed factor of the unit's calibration window


def execute(wl, key, reference: dict, span=NO_SPAN) -> Outcome:
    """Run one unit, timing only the library work, then check its output."""
    ref_key = wl.ref_key(key)
    t0 = time.perf_counter()
    try:
        result = wl.run(key, span)
    except Exception as exc:  # a raising unit is a failed unit, not a crash
        return Outcome(ref_key, problems=[f"raised {exc!r}"])
    seconds = time.perf_counter() - t0
    out = Outcome(ref_key, wl.stratum(key), wl.cycles(result), seconds,
                  digest(wl.result_json(result)), wl.problems(key, result))
    expected = reference.get(ref_key)
    if expected is None:
        out.problems.append("no reference digest")
    elif out.digest != expected:
        out.problems.append(f"digest {out.digest} != reference {expected}")
    return out


# -- host speed -------------------------------------------------------------------
#
# A 2-vCPU Xeon 2.1 GHz virtual machine sharing its physical cores drifts by
# +-20% in speed over tens of seconds (no steal time shows), which no run
# length within budget averages out.  So every measured time is rescaled to
# a reference host speed: a fixed pure-Python loop is timed before and after
# each window of about CAL_WINDOW_S of units, and a unit's seconds are
# multiplied by CAL_REFERENCE_S over the mean of its two bracketing loop
# times.  Raw figures are kept in the details line.

CAL_LOOP = 400_000
CAL_REFERENCE_S = 0.026  # the loop's median on that VM, Python 3.11.7
CAL_WINDOW_S = 0.5


def calibrate() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    return CAL_REFERENCE_S / ((before + after) / 2)


def run_units(wl, keys, reference: dict, sink, span=NO_SPAN, deadline=None, count=None):
    """Run units one at a time until the deadline or count, in calibration
    windows; each outcome goes to `sink` once its window's factor is known."""
    before = calibrate()
    window: list[Outcome] = []
    busy = 0.0
    done = 0
    while (deadline is None or time.perf_counter() < deadline) and \
            (count is None or done < count):
        o = execute(wl, next(keys), reference, span)
        done += 1
        window.append(o)
        busy += o.seconds
        if busy >= CAL_WINDOW_S:
            before = _close_window(window, before, sink)
            busy = 0.0
    _close_window(window, before, sink)


def _close_window(window: list[Outcome], before: float, sink) -> float:
    after = calibrate()
    factor = speed_factor(before, after)
    for o in window:
        o.factor = factor
        sink(o)
    window.clear()
    return after


# -- statistics ---------------------------------------------------------------

class Tally:
    """Per-stratum figures of one run's passing units.  Strata: seed on
    sweep, trace size on grid, template on necessity."""

    def __init__(self):
        self.seconds: dict[str, array] = {}   # host-speed-normalized, per unit
        self.raw_seconds: dict[str, array] = {}
        self.cycles: dict[str, array] = {}
        self.attempted = 0
        self.failed: list[Outcome] = []

    def add(self, o: Outcome) -> None:
        self.attempted += 1
        if o.problems:
            self.failed.append(o)
            return
        self.seconds.setdefault(o.stratum, array("d")).append(o.seconds * o.factor)
        self.raw_seconds.setdefault(o.stratum, array("d")).append(o.seconds)
        self.cycles.setdefault(o.stratum, array("q")).append(o.cycles)

    def cycles_per_s(self, raw: bool = False) -> float:
        """Throughput of a mix holding one mean unit of every stratum, so the
        share of each stratum a run happened to reach does not move it.
        Within a stratum it is a ratio of totals, so a slowdown confined to
        its heavier units shows in full."""
        cycles = seconds = 0.0
        for s, t in (self.raw_seconds if raw else self.seconds).items():
            cycles += statistics.fmean(self.cycles[s])
            seconds += statistics.fmean(t)
        return cycles / seconds

    def quantile(self, q: float, median_per_stratum: bool) -> float:
        """Quantile q of unit latency over the equal-weight mixture of
        strata, interpolated between the midpoints of each sample's weight.
        With `median_per_stratum` each stratum enters by its median alone."""
        if median_per_stratum:
            items = sorted((statistics.median(t), 1.0 / len(self.seconds))
                           for t in self.seconds.values())
        else:
            items = sorted((v, 1.0 / (len(self.seconds) * len(t)))
                           for t in self.seconds.values() for v in t)
        cum = 0.0
        prev_mid, prev_val = None, None
        for value, w in items:
            mid = cum + w / 2
            if mid >= q:
                if prev_mid is None:
                    return value
                return prev_val + (q - prev_mid) / (mid - prev_mid) * (value - prev_val)
            cum += w
            prev_mid, prev_val = mid, value
        return items[-1][0]

    def summary(self) -> dict:
        return {s: {"units": len(t), "cycles": sum(self.cycles[s]),
                    "mean_ms": 1000 * statistics.fmean(t),
                    "raw_mean_ms": 1000 * statistics.fmean(self.raw_seconds[s])}
                for s, t in sorted(self.seconds.items())}


# -- environment -----------------------------------------------------------------

def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "robosync").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = None
    return {
        "commit": commit,
        "source_sha256": src_hash.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": loadavg,
    }


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh benchmark process until it is ready for
    its first timed unit (import, inputs, one warm-up unit): normalized, raw."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    before = calibrate()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return seconds * speed_factor(before, calibrate()), seconds


def load_reference(workload: str) -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)[workload]


# -- the two kinds of run ---------------------------------------------------------

def untraced_run(args, wl, reference) -> tuple[dict, dict, int, list[Outcome]]:
    execute(wl, wl.warmup_key, reference)
    main_setup = time.perf_counter() - T_START
    # one setup probe before each of SETUP_PROBES equal stretches of units, so
    # the probes see the host at every point of the run; probe time does not
    # count against the stretches, and one overrunning shortens the next
    setups = []
    tally = Tally()
    keys = wl.keys()
    deadline = time.perf_counter()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        setups.append(probe_setup(args.workload, args.seed))
        deadline += time.perf_counter() - t0 + args.seconds / SETUP_PROBES
        run_units(wl, keys, reference, tally.add, deadline=deadline)
    # read before the statistics below allocate in proportion to the units run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = bool(tally.seconds)  # with no unit passing its check there is nothing to time
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "cycles_per_s": (tally.cycles_per_s() if ok else 0.0, "cycles/s"),
        "unit_p50_ms": (1000 * tally.quantile(0.5, wl.median_per_stratum) if ok else 0.0, "ms"),
        "unit_p90_ms": (1000 * tally.quantile(0.9, wl.median_per_stratum) if ok else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "fail_frac": len(tally.failed) / tally.attempted,
        "latency_samples": sum(len(t) for t in tally.seconds.values()),
        "latency_strata": len(tally.seconds),
        "raw_cycles_per_s": tally.cycles_per_s(raw=True) if ok else None,
        "setup_probe_s": [s for s, _ in setups],
        "raw_setup_probe_s": [r for _, r in setups],
        "main_setup_s": main_setup,
        "strata": tally.summary(),
    }
    return metrics, detail, tally.attempted, tally.failed


GROWTH_SPANS = ("engine.run", "checker.analyze", "checker.stationary", "checker.aligned",
                "checker.consistent", "checker.serializable", "checker.natural",
                "checker.check_all")


def growth_exponents(wl, outcomes: list[Outcome], self_ms: list[dict]) -> dict:
    """Exponents of span self time in cycles C (the two n=16 sizes) and in
    robots n (the two sizes near 1050 cycles, corrected for their C gap)."""
    n = [size[0] for size in wl.sizes]
    cyc = [o.cycles for o in outcomes[:3]]
    out = {}
    for name in GROWTH_SPANS:
        t = [ms[name] for ms in self_ms[:3]]
        if min(t) <= 0:
            continue  # the span never ran on this workload
        c_exp = math.log(t[1] / t[0]) / math.log(cyc[1] / cyc[0])
        n_exp = (math.log(t[2] / t[1]) - c_exp * math.log(cyc[2] / cyc[1])) / math.log(n[2] / n[1])
        out[f"{name}.c_exp"] = c_exp
        out[f"{name}.n_exp"] = n_exp
    return out


RERUN_STRATA = 5  # the self-test traces the first unit of this many strata twice


def traced_run(args, wl, reference) -> tuple[dict, dict, int, list[Outcome]]:
    """The same fixed unit list untraced, then traced, then the first unit
    of each of the first RERUN_STRATA strata traced again; per-layer totals
    are normalized like end-to-end times."""
    execute(wl, wl.warmup_key, reference)
    keys = wl.keys()
    unit_keys = [next(keys) for _ in range(wl.trace_units)]
    untraced: list[Outcome] = []
    run_units(wl, iter(unit_keys), reference, untraced.append, count=len(unit_keys))

    tracer = Tracer()

    def traced_keys():
        for u, key in enumerate(unit_keys):
            tracer.unit = u
            yield key

    traced: list[Outcome] = []
    reruns: list[tuple[int, Outcome]] = []  # (unit traced first, its rerun)
    tracer.install()
    try:
        run_units(wl, traced_keys(), reference, traced.append, span=tracer,
                  count=len(unit_keys))
        first = {}
        for u, key in enumerate(unit_keys):
            first.setdefault(wl.stratum(key), u)
        for u in list(first.values())[:RERUN_STRATA]:
            tracer.unit = len(unit_keys) + len(reruns)
            reruns.append((u, execute(wl, unit_keys[u], reference, tracer)))
    finally:
        tracer.uninstall()

    selftest = []
    if not tracer.restored():
        selftest.append("wrappers not restored")
    if any(a.digest != b.digest for a, b in zip(untraced, traced)):
        selftest.append("traced digests differ from untraced digests")
    for r, (u, rerun) in enumerate(reruns):
        if rerun.digest != traced[u].digest or \
                tracer.unit_profile(len(unit_keys) + r) != tracer.unit_profile(u):
            selftest.append(f"{rerun.key}: counters or digest differ between two traced runs")

    self_ms = [{k: v * o.factor for k, v in tracer.unit_self_ms(u).items()}
               for u, o in enumerate(traced)]
    totals: dict[str, float] = {}
    for u in range(len(unit_keys)):
        for name, v in (*self_ms[u].items(), *tracer.unit_profile(u).items()):
            totals[name] = totals.get(name, 0) + v
    overhead = 100 * (sum(o.seconds * o.factor for o in traced)
                      / sum(o.seconds * o.factor for o in untraced) - 1)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_ms"] = (totals[name], "ms")
        metrics[f"{name}.calls"] = (totals[f"{name}.calls"], "count")
    for name in COUNTERS:
        metrics[name] = (totals[name], "bytes" if name == "io.trace_bytes" else "count")
    metrics["engine.us_per_event"] = (
        ratio(1000 * totals["engine.run"], totals["engine.events"]), "us")
    metrics["synchronizer.accept_ratio"] = (
        ratio(totals["synchronizer.accepted_cycles"], totals["synchronizer.luminous_cycles"]),
        "ratio")
    metrics["synthesis.found_ratio"] = (
        ratio(totals["synthesis.found"], totals["synthesis.candidate_search.calls"]), "ratio")
    metrics["tracing.overhead_pct"] = (overhead, "%")
    metrics["tracing.units"] = (len(unit_keys), "count")

    tally = Tally()
    for o in traced:
        tally.add(o)
    detail = {"selftest_problems": selftest, "strata": tally.summary()}
    if wl.name == "grid":
        detail["growth"] = growth_exponents(wl, traced, self_ms)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.tsv"
    tracer.write(spans_path, [o.key for o in traced] + [o.key + " (rerun)" for _, o in reruns])
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    detail["spans"] = len(tracer.span_start)
    detail["selftest_reruns"] = [o.key for _, o in reruns]
    outcomes = untraced + traced + [o for _, o in reruns]
    return metrics, detail, len(outcomes), [o for o in outcomes if o.problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    reference = load_reference(args.workload)
    if args.setup_probe:
        execute(wl, wl.warmup_key, reference)
        print("ready", flush=True)
        return 0

    env = environment()
    run = traced_run if args.trace else untraced_run
    metrics, detail, attempted, failed = run(args, wl, reference)
    problems = wl.finish() + detail.pop("selftest_problems", [])
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, **detail,
              "problems": problems + [f"{o.key}: {p}" for o in failed[:20] for p in o.problems]}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
