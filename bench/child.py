"""One workload repetition in a fresh interpreter.

Run by `run.py` as `python3 bench/child.py`: it imports `ramlab.cli` from
the checkout's `src/`, marks the moment the first invocation could start,
reads `{"invocations": [...], "trace": bool}` from stdin, calls
`ramlab.cli.main` once per argv list with stdout and stderr captured, and
writes one JSON object with the timings, outputs, `ru_maxrss` and the
host-speed calibrations taken around them to stdout. With an empty
invocation list it only measures set-up.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from ramlab import cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import calibrate  # noqa: E402

CALIBRATE_EVERY_S = 0.25  # between invocations, besides once before and once after


def _run(invocations, main, calibrations):
    results = []
    clock = time.perf_counter
    last = clock()
    for i, argv in enumerate(invocations):
        if clock() - last >= CALIBRATE_EVERY_S:
            calibrations.append([i, calibrate.loop_seconds()])
            last = clock()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = main(list(argv))
            except Exception as exc:  # a crash is reported as a wrong result, not raised
                code = f"crash: {type(exc).__name__}: {exc}"
            t1 = clock()
        results.append([code, t1 - t0, out.getvalue(), err.getvalue()[:300]])
    return results


def main() -> None:
    request = json.load(sys.stdin)
    report = {"ready": READY, "src": os.path.dirname(os.path.dirname(cli.__file__))}
    calibrations = [[0, calibrate.loop_seconds()]]  # [invocations done before it, loop time]
    if request["trace"]:
        import spans

        modules = spans.layer_modules()
        caches = spans.find_caches(modules)
        tracer = spans.Tracer()
        tracer.install(modules)
        report["results"] = _run(request["invocations"], tracer.wrap(cli.main, "cli"),
                                 calibrations)
        report["trace"] = tracer.summary()
        report["caches"] = spans.cache_stats(caches)
    else:
        report["results"] = _run(request["invocations"], cli.main, calibrations)
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibrations.append([len(request["invocations"]), calibrate.loop_seconds()])
    report["calibrations"] = calibrations
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
