"""Run every row of tests/budgets.json and check it against its budget.

    python3 tools/budgets.py

A row is one `ramlab` command line with its expected exit code and wall
timeout, and optionally a peak-RSS budget (`rss_mb`) and a check of its
stdout: the `value` of its one JSON record, its `lines`, or its
`distinct_lines`. A `{spec}` in the argv stands for the row's inline
`spec`, written to a temporary file. Each row runs as `python -m ramlab`
from this checkout's `src/`, in a fresh launcher interpreter that holds
nothing else: on Linux a child's ru_maxrss includes the peak of the
process that spawns it. The child's stdout goes to a file, where its
lines are counted, so no table is held in memory. One JSON record per row
goes to stdout, and the exit code is 1 if any row fails. Stdlib only.

    python3 tools/budgets.py --repeat 5 --record BENCH_<n>.json

runs every row k times, checking each run, and writes the min, median and
max of each row's `wall_s` and `peak_rss_mb` over its k runs to PATH, with
the interpreter, platform, CPU count and commit they were measured on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "budgets.json"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

# runs one child under its timeout and prints [exit code or None on timeout,
# wall s, peak RSS MB, lines, distinct lines]. An alarm kills the child, so
# the wait blocks rather than polls and the wall time is exact. The peak is
# RUSAGE_CHILDREN's ru_maxrss (KiB on Linux), read before the output is
# counted; the distinct count keeps one hash per line, not the line
LAUNCHER = """
import json, resource, signal, subprocess, sys, time
argv, timeout, out = json.loads(sys.argv[1])
expired = []
start = time.perf_counter()
with open(out, "wb") as fh:
    child = subprocess.Popen(argv, stdout=fh)
    signal.signal(signal.SIGALRM, lambda *_: expired.append(child.kill()))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    code = child.wait()
    signal.setitimer(signal.ITIMER_REAL, 0)
wall = time.perf_counter() - start
code = None if expired else code
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
with open(out, "rb") as fh:
    hashes = [hash(line) for line in fh]
print(json.dumps([code, wall, peak, len(hashes), len(set(hashes))]))
"""


def _value(path: Path):
    try:
        return json.loads(path.read_text())["value"]
    except (ValueError, KeyError, TypeError):
        return None


def run_row(row: dict, tmp: Path) -> dict:
    """Run one row in a fresh launcher; its record says what failed, if anything."""
    spec, out = tmp / "spec.json", tmp / "stdout"
    spec.write_text(json.dumps(row.get("spec")))
    argv = [str(spec) if arg == "{spec}" else arg for arg in row["argv"]]
    job = json.dumps([[sys.executable, "-m", "ramlab", *argv], row["timeout_s"], str(out)])
    launched = subprocess.run([sys.executable, "-c", LAUNCHER, job], env=ENV,
                              stdout=subprocess.PIPE, text=True, check=True)
    code, wall, peak, lines, distinct = json.loads(launched.stdout)
    got = {"exit": code, "lines": lines, "distinct_lines": distinct}
    if "value" in row:
        got["value"] = _value(out)
    failed = [key for key in got if key in row and got[key] != row[key]]
    if peak > row.get("rss_mb", float("inf")):
        failed.append("rss_mb")
    record = {"name": row["name"], "exit": code, "wall_s": round(wall, 3),
              "peak_rss_mb": round(peak, 2), "timeout_s": row["timeout_s"],
              "rss_mb": row.get("rss_mb"), "pass": not failed}
    return record | ({"failed": failed} if failed else {})


def _commit() -> dict:
    # the checked-out commit, and whether the tree differs from it
    def git(*args):
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """The record --record writes: per row, the min, median and max of
    `wall_s` and `peak_rss_mb` over its runs and how many passed, with the
    host and commit they were measured on."""
    def spread(values):
        return {"min": min(values), "median": statistics.median(values), "max": max(values)}

    rows = [{"name": name, "runs": len(records), "passed": sum(r["pass"] for r in records),
             **{key: spread([r[key] for r in records]) for key in ("wall_s", "peak_rss_mb")}}
            for name, records in runs.items()]
    host = {"python": f"{platform.python_implementation()} {platform.python_version()}",
            "platform": platform.platform(), "cpu_count": os.cpu_count()}
    return {**_commit(), **host, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run every row of tests/budgets.json.")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run each row K times, checking every run (default 1)")
    parser.add_argument("--record", type=Path, metavar="PATH",
                        help="write each row's min, median and max wall_s and peak_rss_mb to PATH")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")
    rows = json.loads(TABLE.read_text())
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            for _ in range(args.repeat):
                record = run_row(row, Path(tmp))
                print(json.dumps(record), flush=True)
                runs.setdefault(row["name"], []).append(record)
    if args.record:
        args.record.write_text(json.dumps(summarize(runs), indent=1) + "\n")
    failures = sum(not all(r["pass"] for r in records) for records in runs.values())
    if failures:
        print(f"{failures} of {len(rows)} rows failed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
