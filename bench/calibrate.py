"""Host-speed calibration: a fixed pure-Python loop that shares no code with ramlab.

The host is shared. Other tenants switch it between a fast state and a
slow one, about 1.7x slower, sometimes within a second and sometimes for
minutes. Raw times then measure the neighbours more than the code. Each
child therefore times this loop around its invocations. `run.py` scales
every time by `REFERENCE_S / loop time`, which gives seconds at the fast
state. The loop uses only the standard library (integer arithmetic, dict
updates, gcd, sorting, JSON and Fraction), so no change to ramlab can move
it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from math import gcd

# the loop's time in the fast state of the 2-vCPU Xeon guest (2.0 GHz) the
# benchmark was written on; scaled times read as seconds there
REFERENCE_S = 0.0095


def _work() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(1, 24000):
        acc += (i * i) % 7
        table[i % 997] = table.get(i % 997, 0) + gcd(i, 360360)
    text = json.dumps(sorted(table.items()))
    acc += sum(Fraction(1, k) for k in range(1, 200)).denominator % 13
    return acc + len(text)


def loop_seconds(repeats: int = 3) -> float:
    """Median time of `repeats` back-to-back runs of the loop."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]
