"""The ramlab benchmark: seeded CLI workloads, checked outputs, per-layer trace.

    python3 bench/run.py --workload query-stream --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Each repetition runs one workload in a fresh interpreter (`child.py`), so
caches start cold as they do for a CLI user; one child runs at a time.
`--trace 0` reports the end-to-end metrics of untraced children. `--trace 1`
alternates untraced and traced children and reports the per-layer metrics
of the traced ones, with their difference as `trace.overhead_s`. Outputs
are checked after timing (`workloads.check`). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

import calibrate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

LAYERS = ("arith", "systems", "gensums", "even", "verify", "reports", "cli")
CACHED_LAYERS = ("arith", "systems", "gensums", "verify")
MIN_REPS = 3  # children per mode, even when --seconds has run out
MIN_SETUPS = 20  # set-up-only interpreter starts per untraced run
STEADY_RATIO = 1.15  # calibrations around an invocation this close: host speed held
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit 2."""


def _spawn(invocations, traced: bool) -> dict:
    request = json.dumps({"invocations": invocations, "trace": traced})
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD], input=request, capture_output=True, text=True,
        cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout)
    if os.path.realpath(report["src"]) != os.path.realpath(SRC):
        raise BenchError(f"child imported ramlab from {report['src']}, not {SRC}")
    report["setup_s"] = report["ready"] - t0
    return report


def _steady(a: float, b: float) -> bool:
    return max(a, b) <= STEADY_RATIO * min(a, b)


def _speeds(report) -> list[tuple[float, bool]]:
    """(scale factor to the reference host speed, steady) for each invocation.

    An invocation takes the mean of the calibrations just before and just
    after it, and is steady when those two agree. The host flips between a
    fast and a slow state, sometimes within a second; a flip inside an
    invocation leaves its scaled time wrong, and the pair shows it."""
    cals = report["calibrations"]  # [invocations done before it, loop time], in order
    factors = []
    for i in range(len(report["results"])):
        before = [t for done, t in cals if done <= i][-1]
        after = next(t for done, t in cals if done > i)
        factors.append((2 * calibrate.REFERENCE_S / (before + after), _steady(before, after)))
    return factors


class Run:
    """Children of one workload run, with outputs kept once per distinct text."""

    def __init__(self, workload):
        self.workload = workload
        self.setups: list[tuple[float, bool]] = []  # (scaled set-up time, steady)
        self.reps: list[dict] = []
        self.outputs: dict[tuple, str] = {}  # (invocation, code, digest) -> stdout

    def probe_setup(self) -> None:
        """Start an interpreter that only imports ramlab.cli and calibrates twice."""
        report = _spawn([], False)
        (_, first), (_, second) = report["calibrations"]
        self.setups.append((report["setup_s"] * calibrate.REFERENCE_S / first,
                            _steady(first, second)))

    def rep(self, traced: bool) -> None:
        self.add(_spawn(self.workload.invocations, traced), traced)

    def add(self, report: dict, traced: bool) -> None:
        """Record one child's report, its times scaled to the reference host speed."""
        speed = calibrate.REFERENCE_S / statistics.median(t for _, t in report["calibrations"])
        # a traced child's layer times cover all its invocations, so it takes one factor
        speeds = [(speed, True)] * len(report["results"]) if traced else _speeds(report)
        calls = []
        for i, ((code, seconds, stdout, stderr), (factor, steady)) in enumerate(
                zip(report["results"], speeds)):
            key = (i, code, hashlib.sha256(stdout.encode()).hexdigest())
            self.outputs.setdefault(key, stdout)
            calls.append({"key": key, "seconds": seconds * factor, "raw_seconds": seconds,
                          "steady": steady, "stderr": stderr, "bytes": len(stdout.encode())})
        trace = report.get("trace")
        if trace:
            for table in (trace["layers"], trace["functions"]):
                for row in table.values():
                    row["self_s"] *= speed
                    row["total_s"] *= speed
        self.reps.append({"traced": traced, "calls": calls, "rss_kb": report["rss_kb"],
                          "trace": trace, "caches": report.get("caches")})

    def count(self, traced: bool) -> int:
        return sum(1 for r in self.reps if r["traced"] == traced)


def measure(workload, seconds: float, trace: bool) -> Run:
    """Children one at a time until `seconds` have passed; untraced runs also
    start set-up-only interpreters between children, for the set-up median."""
    run = Run(workload)
    deadline = time.monotonic() + seconds
    modes = (False, True) if trace else (False,)
    while True:
        traced = modes[len(run.reps) % len(modes)]
        if not traced:
            run.probe_setup()
        run.rep(traced)
        if all(run.count(m) >= MIN_REPS for m in modes) and time.monotonic() >= deadline:
            break
    while not trace and len(run.setups) < MIN_SETUPS:
        run.probe_setup()
    return run


def judge(run: Run) -> dict:
    """Check every distinct output once; tally invocations across all children."""
    verdicts = {
        key: workloads.check(run.workload.invocations[key[0]], key[1], stdout)
        for key, stdout in run.outputs.items()
    }
    tally = {workloads.OK: 0, workloads.REFUSED: 0, workloads.WRONG: 0}
    reasons: dict[str, int] = {}
    for rep in run.reps:
        for call in rep["calls"]:
            status, call["work"], reason = verdicts[call["key"]]
            tally[status] += 1
            if status != workloads.OK:
                message = (call["stderr"].strip().splitlines() or [reason])[-1]
                why = f"{status}: {re.sub(r'[0-9]+', 'N', message)}"
                reasons[why] = reasons.get(why, 0) + 1
    attempted = sum(tally.values())
    return {
        "attempted": attempted,
        "failed": attempted - tally[workloads.OK],
        "wrong": tally[workloads.WRONG],
        "refused": tally[workloads.REFUSED],
        "reasons": reasons,
        "distinct_outputs": len(verdicts),
    }


def _wall(rep, key: str = "seconds") -> float:
    return sum(c[key] for c in rep["calls"])


def per_invocation(reps) -> list[tuple[float, int]]:
    """(time, work) of each invocation: its median scaled time over the
    children where the host speed held steady around it (over all children
    if it held in none)."""
    out = []
    for runs in zip(*(r["calls"] for r in reps)):
        steady = [c["seconds"] for c in runs if c["steady"]] or [c["seconds"] for c in runs]
        out.append((statistics.median(steady), runs[0]["work"]))
    return out


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    reps = [r for r in run.reps if not r["traced"]]
    invocations = per_invocation(reps)
    wall = sum(t for t, _ in invocations)
    latencies = sorted(t for t, _ in invocations)
    setups = [t for t, steady in run.setups if steady] or [t for t, _ in run.setups]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "throughput": (sum(w for _, w in invocations) / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in reps) / 1024, "MB"),
    }
    steady = sum(c["steady"] for r in reps for c in r["calls"])
    samples = sum(len(r["calls"]) for r in reps)
    notes = [
        f"{len(reps)} children; each invocation's time is its median over the children, "
        f"scaled to the reference host speed; setup_s is the median of {len(setups)} "
        f"of {len(run.setups)} interpreter starts, those with the host speed steady just after",
        f"host speed held around {steady}/{samples} invocation runs; unscaled median "
        f"child wall {statistics.median(_wall(r, 'raw_seconds') for r in reps):.6f} s",
        f"throughput counts {workloads.WORK_UNITS[run.workload.name]} per second",
        f"op_p50_ms over {len(latencies)} invocations",
    ]
    if len(latencies) >= 1000:  # at least ten samples beyond the 99th percentile
        p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
        notes.append(f"op_p99_ms {1e3 * p99:.6f} ms over {len(latencies)} invocations")
    else:
        notes.append(f"op_p99_ms not defined: {len(latencies)} invocations, 1000 needed")
    return metrics, notes


def per_layer(run: Run) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics, medians over the traced children; notes; trace problems."""
    traced = [r for r in run.reps if r["traced"]]
    plain = [r for r in run.reps if not r["traced"]]
    problems = []
    calls = [{layer: v["calls"] for layer, v in r["trace"]["layers"].items()} for r in traced]
    if any(c != calls[0] for c in calls):
        problems.append(f"layer call counts differ between traced children: {calls}")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[0].get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (statistics.median(
            r["trace"]["layers"].get(layer, {}).get("self_s", 0.0) for r in traced), "s")
    for layer in CACHED_LAYERS:
        c = traced[0]["caches"].get(layer, {"entries": 0, "hits": 0, "misses": 0})
        lookups = c["hits"] + c["misses"]
        metrics[f"{layer}.cache_entries"] = (c["entries"], "count")
        metrics[f"{layer}.cache_lookups"] = (lookups, "count")
        metrics[f"{layer}.cache_hit_ratio"] = (c["hits"] / lookups if lookups else 0.0, "ratio")
    traced_wall = statistics.median(_wall(r) for r in traced)
    overhead = traced_wall - statistics.median(_wall(r) for r in plain)
    metrics["cli.output_bytes"] = (sum(c["bytes"] for c in traced[0]["calls"]), "B")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    # self time must account for the traced wall time, up to the tracing overhead
    worst_gap = max(abs(_wall(r) - sum(v["self_s"] for v in r["trace"]["layers"].values()))
                    for r in traced)
    if worst_gap > max(overhead, 0.01 * traced_wall):
        problems.append(f"per-layer self_s misses the traced wall_s by {worst_gap:.6f} s")
    other = sorted({layer for r in traced for layer in r["trace"]["layers"]} - set(LAYERS))
    notes = [
        f"medians over {len(traced)} traced children, against {len(plain)} untraced; "
        f"{traced[0]['trace']['spans']} spans per traced child; times scaled to the "
        f"reference host speed",
        f"sum of per-layer self_s is within {worst_gap:.6f} s of each traced child's wall",
        "cache_hit_ratio = hits / cache_lookups, summed over each layer's lru_caches",
    ]
    if other:
        notes.append(f"modules outside the declared layers: {', '.join(other)}")
    return metrics, notes, problems


def write_trace(run: Run, seed: int) -> str:
    """Per-function span table of the first traced child, written when the run ends."""
    first = next(r for r in run.reps if r["traced"])
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{run.workload.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": run.workload.name, "seed": seed, **first["trace"],
                   "caches": first["caches"]}, fh, indent=1, sort_keys=True)
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    run = measure(workloads.make(name, seed), seconds, trace)
    verdict = judge(run)
    if trace:
        metrics, notes, problems = per_layer(run)
        notes.append(f"spans written to {os.path.relpath(write_trace(run, seed), ROOT)}")
    else:
        (metrics, notes), problems = end_to_end(run), []
    rate = verdict["failed"] / verdict["attempted"]
    notes.append(
        f"error_rate {rate:.6f} ({verdict['failed']}/{verdict['attempted']} invocations: "
        f"{verdict['refused']} refused with exit 1, {verdict['wrong']} wrong); "
        f"{verdict['distinct_outputs']} distinct outputs checked"
    )
    notes += [f"  {n} x {why}" for why, n in sorted(verdict["reasons"].items(),
                                                    key=lambda kv: -kv[1])[:5]]
    outside = workloads.outside_mix_bound(run.workload.invocations)
    if outside:
        notes.append(f"{outside}/{len(run.workload.invocations)} moduli have a prime power "
                     f"above MIX's exponent bound {workloads.MIX_EXPONENT_BOUND}: asked under "
                     f"D or U only, since MIX refuses them")
    notes += [f"problem: {p}" for p in problems]
    result = {
        "correct": verdict["wrong"] == 0 and not problems,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def _print_human(name: str, seed: int, trace: bool, result: dict, notes: list[str]) -> None:
    print(f"== {name} seed={seed} trace={int(trace)} correct={result['correct']}")
    for key, m in result["metrics"].items():
        print(f"  {key:28s} {m['value']:>16.6f} {m['unit']}")
    for note in notes:
        print(f"  # {note}")


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "ramlab", "cli.py")):
        raise BenchError(f"no ramlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import ramlab

    if os.path.realpath(os.path.dirname(os.path.dirname(ramlab.__file__))) != os.path.realpath(SRC):
        raise BenchError(f"ramlab imported from {ramlab.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.workload == "all":
            ok = True
            for name in workloads.NAMES:
                for trace in (False, True):
                    result, notes = run_workload(name, args.seed, args.seconds, trace)
                    _print_human(name, args.seed, trace, result, notes)
                    ok &= result["correct"]
            return 0 if ok else 3
        result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    _print_human(args.workload, args.seed, bool(args.trace), result, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
