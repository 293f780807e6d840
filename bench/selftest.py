"""Self-test of the benchmark: generators are deterministic, checks are not vacuous.

    python3 bench/selftest.py

Runs small invocations of every command the workloads use through
`ramlab.cli.main` in this process, confirms that their real outputs pass,
then corrupts one value (or sets one `pass` to false) and confirms that the
corrupted output is judged wrong and counted in the error rate.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

import run
import workloads

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def invoke(argv) -> dict:
    from ramlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": tuple(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def error_rate(results) -> tuple[int, int, int]:
    """(attempted, failed, wrong) as `run.judge` tallies them for one child."""
    w = workloads.Workload("selftest", 0, tuple(r["argv"] for r in results))
    bench_run = run.Run(w)
    bench_run.add({"results": [[r["code"], 0.001, r["stdout"], r["stderr"]] for r in results],
                   "rss_kb": 0, "setup_s": 0.0,
                   "calibrations": [[0, 1.0], [len(results), 1.0]]}, traced=False)
    verdict = run.judge(bench_run)
    return verdict["attempted"], verdict["failed"], verdict["wrong"]


def edit_record(result: dict, index: int, key: str, value) -> dict:
    lines = result["stdout"].splitlines()
    row = json.loads(lines[index])
    row[key] = value
    lines[index] = json.dumps(row)
    return {**result, "stdout": "\n".join(lines) + "\n"}


def test_generators() -> None:
    for name in workloads.NAMES:
        a, b, c = workloads.make(name, 7), workloads.make(name, 7), workloads.make(name, 8)
        expect(a == b, f"{name}: seed 7 gives the same argv lists twice")
        expect(a.invocations != c.invocations, f"{name}: seeds 7 and 8 give different inputs")


def test_corruption(label: str, good: dict, bad: dict) -> None:
    expect(error_rate([good]) == (1, 0, 0), f"{label}: real output passes")
    expect(error_rate([good, bad]) == (2, 1, 1), f"{label}: corrupted output is counted wrong")


def test_checks() -> None:
    table = invoke(["table", "--what", "cA", "--system", "MIX", "--rmax", "24", "--nmax", "20",
                    "--format", "json"])
    row = json.loads(table["stdout"].splitlines()[157])
    test_corruption("table", table, edit_record(table, 157, "value", row["value"] + 1))
    diagonal = 11 * 24 + 11  # n = r = 12
    row = json.loads(table["stdout"].splitlines()[diagonal])
    test_corruption("table diagonal", table, edit_record(table, diagonal, "value", -row["value"]))

    queries = [q for q in workloads.make("query-stream", 3).invocations if "MIX" not in q][:20]
    answers = [invoke(q) for q in queries]
    expect(error_rate(answers) == (20, 0, 0), "query-stream: 20 real D/U answers pass")
    flipped = edit_record(answers[5], 0, "value", json.loads(answers[5]["stdout"])["value"] + 2)
    expect(error_rate(answers[:5] + [flipped] + answers[6:]) == (20, 1, 1),
           "query-stream: one flipped value is counted wrong")

    stream = workloads.make("query-stream", 3).invocations
    expect(all(workloads.within_mix_bound(int(q[2])) for q in stream if "MIX" in q),
           "query-stream: no MIX query has a modulus MIX refuses")
    refused = invoke(["c", "3", str(2**17), "--system", "MIX", "--format", "json"])
    expect(refused["code"] == 1 and error_rate([refused]) == (1, 1, 0),
           "query-stream: a refused query (exit 1) counts as failed, not wrong")

    sweep = invoke(["verify", "all", "--system", "U", "--rmax", "12", "--xmax", "500",
                    "--format", "json"])
    test_corruption("verify pass \"false\"", sweep, edit_record(sweep, 3, "pass", "false"))
    test_corruption("verify pass false", sweep, edit_record(sweep, 3, "pass", False))
    as_bool = {**sweep, "stdout": sweep["stdout"].replace('"pass": "true"', '"pass": true')}
    expect(error_rate([as_bool]) == (1, 0, 0), "verify: JSON true is accepted as a pass")
    expect(error_rate([{**sweep, "code": 2}]) == (1, 1, 1), "verify: exit 2 is counted wrong")

    literal = "r=12; 1:1, 2:-1, 3:1/2, 4:0, 6:3, 12:-7/3"
    even = invoke(["verify", "prop1", "--even", literal, "--rmax", "4", "--xmax", "40",
                   "--format", "json"])
    last = len(even["stdout"].splitlines()) - 1
    row = json.loads(even["stdout"].splitlines()[last])
    test_corruption("even-fourier literal", even,
                    edit_record(even, last, "exact_sum", str(Fraction(row["exact_sum"]) + 1)))

    expansion = invoke(["expansion", "5040", "--terms", "20000", "--format", "json"])
    test_corruption("expansion", expansion, edit_record(expansion, 0, "target", "4.0"))


def main() -> int:
    run.check_checkout()
    test_generators()
    test_checks()
    print(f"selftest: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
