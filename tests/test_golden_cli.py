"""Byte-identical CLI output on a fixed corpus, checked against stored digests.

The digests in `golden_cli.json` were recorded from the divisor-route
implementation of `table` and `c`, except 29 of `c`'s, recorded again from
the integer count of `gensums.c_A_oracle`: all 20 `--route oracle` ones,
which print n, r and one value, the 8 `--route all --format json` ones,
whose oracle cell is a JSON number, and `c 15625 5000 --system D --route
all --format csv`, whose oracle cell was float noise for 0. The
`verify prop1 --even` ones were recorded from the tau^2 double-sum
implementation of `even.fourier_coeffs`. The
`expansion` digests up to 10^5 terms were recorded from the prefix-table
evaluation of `expansion.expansion_demo` (then in `verify`), and the 10^6
and 10^7 ones from its Mertens-type recursion above floor(R^(2/3)). `verify all` under D was
recorded from the checkers that read the system's `kind` tag. `verify all` under U, MIX and the custom
system (with the `--xmax 100003` ones under U and MIX) were recorded from
the Prop 1 battery of (A, r)-even functions expanded in c_A(., d),
d in A(r). The D `--xmax 100003` ones were recorded from the Prop 1
oracle that looped over every n <= x, and the `verify prop3` ones on the
systems {A} and {B} and on D at `--rmax 200` from the search that tried
every pair r != s <= rmax. The `table --what cA --rmax 70 --nmax 70` ones,
4900 rows each, were recorded from the emitter that wrote JSON and CSV one
row at a time. The `verify prop1 --even` ones under U and MIX were recorded
from the literal read in `--system`, and the refused one prints nothing.
Any change to what the CLI prints for these inputs, even one byte, fails
here. To record them again from the current code (only when an output
change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import ramlab
from ramlab.cli import main

from conftest import CUSTOM_OK, SPEC_A, SPEC_B

DIGESTS = Path(__file__).with_name("golden_cli.json")
CUSTOM = "{custom}"
# each placeholder stands for a spec file, run relative to the spec's
# directory: verify prints the spec path as the system's label, so an
# absolute temporary path would change the bytes
SPEC_FILES = {
    CUSTOM: ("custom.json", CUSTOM_OK),
    "{A}": ("a.json", SPEC_A),
    "{B}": ("b.json", SPEC_B),
}
SYSTEMS = ("D", "U", "MIX", CUSTOM)
FORMATS = ("json", "csv", "plain")
EVEN_MODULI = (50400, 110880)  # tau = 108 and 144
# (36, 4) under U and MIX: the first is constant on each class (d, 36)_A,
# which MIX splits finer at 3; the second has f(2) != f(1) = f((2, 4)_A)
A_EVEN_LITERALS = ("r=36; 1:1, 2:1, 3:1, 4:-2/3, 6:1, 9:5, 12:-2/3, 18:5, 36:7",
                   "r=4; 1:1, 2:2, 4:3")


def _even_literal(r: int) -> str:
    """A fixed rational even function mod r, as a CLI literal."""
    divs = [d for d in range(1, r + 1) if r % d == 0]
    return f"r={r}; " + ", ".join(f"{d}:{d * 37 % 19 - 9}/{d % 11 + 1}" for d in divs)


def _expand(arg: str) -> str:
    # placeholders keep the corpus keys short: spec files and {even:<r>}
    if arg in SPEC_FILES:
        return SPEC_FILES[arg][0]
    if arg.startswith("{even:"):
        return _even_literal(int(arg[len("{even:"):-1]))
    return arg


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for system in SYSTEMS:
        for fmt in FORMATS:
            cases.append(("table", "--what", "cA", "--system", system,
                          "--rmax", "36", "--nmax", "40", "--format", fmt))
            for what in ("phiA", "psiA", "gammaA", "muA"):
                cases.append(("table", "--what", what, "--system", system,
                              "--rmax", "200", "--format", fmt))
    # 4900 rows: more than one of the emitter's row chunks
    for fmt in FORMATS:
        cases.append(("table", "--what", "cA", "--system", "MIX",
                      "--rmax", "70", "--nmax", "70", "--format", fmt))
    pairs = [(2, 4), (12, 36), (250, 1250), (48, 720), (5**6, 5**4 * 8)]
    for system in SYSTEMS:
        for route in ("divisor", "core", "oracle", "all"):
            for i, (n, r) in enumerate(pairs):
                cases.append(("c", str(n), str(r), "--system", system, "--route", route,
                              "--format", FORMATS[i % 3]))
    for system in SYSTEMS:
        for fmt in FORMATS:
            cases.append(("verify", "all", "--system", system, "--format", fmt))
    for r in EVEN_MODULI:
        for fmt in FORMATS:
            cases.append(("verify", "prop1", "--rmax", "12", "--xmax", "60",
                          "--even", f"{{even:{r}}}", "--format", fmt))
    for system in ("U", "MIX"):
        for literal in A_EVEN_LITERALS:
            cases.append(("verify", "prop1", "--system", system, "--rmax", "12", "--xmax", "60",
                          "--even", literal, "--format", "json"))
    # x = 100003 is prime, so x mod r != 0 for every r > 1 in the battery:
    # these pin the partial-period remainder of Prop 1's one-period tally
    for fmt in FORMATS:
        cases.append(("verify", "prop1", "--system", "D", "--rmax", "50",
                      "--xmax", "100003", "--format", fmt))
    for system in ("U", "MIX"):
        cases.append(("verify", "all", "--system", system, "--rmax", "50",
                      "--xmax", "100003", "--format", "json"))
    # the first violating pair r != s: on A at 11 + 11^2 (rmax 127) and at
    # 2 + 2^7, below it in sum (rmax 130); on B the tie 3 + 3^3 = 5 + 5^2;
    # on D none
    for system, rmax in (("{A}", "127"), ("{A}", "130"), ("{B}", "30"), ("D", "200")):
        for fmt in FORMATS:
            cases.append(("verify", "prop3", "--system", system, "--rmax", rmax,
                          "--format", fmt))
    expansions = [(n, terms) for terms in (1, 1000, 100000) for n in (1, 6, 5040, 720720)]
    for i, (n, terms) in enumerate(expansions):
        cases.append(("expansion", str(n), "--terms", str(terms), "--format", FORMATS[i % 3]))
    # above 2^17 terms the cuts above floor(R^(2/3)) come from the recursion
    for terms in (1000000, 10000000):
        for n in (1, 720720):
            cases.append(("expansion", str(n), "--terms", str(terms), "--format", "json"))
    return cases


def _run(case: tuple[str, ...], spec_dir: str) -> dict:
    argv = [_expand(a) for a in case]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(spec_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _write_specs(path: Path) -> None:
    for name, spec in SPEC_FILES.values():
        (path / name).write_text(json.dumps(spec))


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _write_specs(path)
    return str(path)


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGESTS.read_text())


def test_corpus_is_complete(digests):
    assert sorted(digests) == sorted(" ".join(c) for c in _cases())


@pytest.mark.parametrize("case", _cases(), ids=" ".join)
def test_output_is_byte_identical(case, spec_dir, digests):
    assert _run(case, spec_dir) == digests[" ".join(case)]


def test_python_m_ramlab_prints_the_golden_bytes(digests):
    # `python -m ramlab` is the CLI in a fresh interpreter, run from this
    # package's source; `c 12 36 --format csv` is the corpus case with its
    # defaults spelled out
    src = str(Path(ramlab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "ramlab", "c", "12", "36", "--format", "csv"],
                          capture_output=True, env=env, timeout=60)
    got = {"exit": done.returncode, "sha256": hashlib.sha256(done.stdout).hexdigest()}
    assert got == digests["c 12 36 --system D --route divisor --format csv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_specs(Path(tmp))
        recorded = {" ".join(c): _run(c, tmp) for c in _cases()}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests in {DIGESTS}", file=sys.stderr)

